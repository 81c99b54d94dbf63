"""Command line interface.

Two plain-text input formats, both with ``#`` comments:

  ring instances            split crossing routings
  -------------------       -----------------------
  ring 8                    split 2
  demand 1 5 7/2            pair 3 1
  demand 2 6 4 1            pair 1/2 5/2

A ``demand i j value [clockwise]`` line may carry the part routed
clockwise as an optional fourth field (default: half the value).  All
numbers are exact rationals ``p`` or ``p/q``; decimals are rejected.

Exit codes: 0 success, 2 usage or parse problem, 3 a certified
guarantee failed (diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import inspect
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .adversary import build_milp, builtin_instances, export_lp, heuristic_search
from .boost import BoostedInstance, boost, verify_boost
from .core import CrossingRouting, RingInstance, split_loads, unsplittable_loads
from .errors import GuaranteeViolated, ParseError, RingLoadingError
from .exact import min_additive_performance
from .reduce import GeneralSplitRouting, ReductionResult, to_crossing_form
from .rounding import (
    BoundedRounding,
    RoundingMethod,
    round_main,
    round_medium,
    round_upper,
    ssw_round,
)

RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)


def parse_rational(token: str, where: str) -> Fraction:
    if not RATIONAL_RE.match(token):
        raise ParseError(f"{where}: {token!r} is not an exact rational (use p or p/q)")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"{where}: {token!r} has a zero denominator") from None


def parse_count(token: str, where: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{where}: {token!r} is not a positive integer")
    return int(token)


def fmt(x: Fraction) -> str:
    return f"{x} (≈ {float(x):.6g})"


@dataclass(frozen=True)
class ParsedInput:
    kind: str  # "ring" or "split"
    routing: CrossingRouting | None
    general: GeneralSplitRouting | None


def _meaningful_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def parse_input_text(text: str) -> ParsedInput:
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError("empty input")
    number, head = lines[0]
    if head[0] == "ring":
        if len(head) != 2:
            raise ParseError(f"line {number}: expected 'ring <n>'")
        n = parse_count(head[1], f"line {number}")
        demands = []
        parts = []
        for number, tokens in lines[1:]:
            if tokens[0] != "demand" or len(tokens) not in (4, 5):
                raise ParseError(
                    f"line {number}: expected 'demand <i> <j> <value> [<clockwise>]'"
                )
            i = parse_count(tokens[1], f"line {number}")
            j = parse_count(tokens[2], f"line {number}")
            value = parse_rational(tokens[3], f"line {number}")
            if len(tokens) == 5:
                cw = parse_rational(tokens[4], f"line {number}")
            else:
                cw = value / 2
            demands.append((i, j, value))
            parts.append(cw)
        try:
            instance = RingInstance(n, tuple(demands))
            general = GeneralSplitRouting(instance, tuple(parts))
        except RingLoadingError as exc:
            raise ParseError(str(exc)) from exc
        return ParsedInput("ring", None, general)
    if head[0] == "split":
        if len(head) != 2:
            raise ParseError(f"line {number}: expected 'split <m>'")
        m = parse_count(head[1], f"line {number}")
        u = []
        v = []
        for number, tokens in lines[1:]:
            if tokens[0] != "pair" or len(tokens) != 3:
                raise ParseError(f"line {number}: expected 'pair <u> <v>'")
            u.append(parse_rational(tokens[1], f"line {number}"))
            v.append(parse_rational(tokens[2], f"line {number}"))
        if len(u) != m:
            raise ParseError(f"header says {m} pairs but found {len(u)}")
        try:
            routing = CrossingRouting(tuple(u), tuple(v))
        except RingLoadingError as exc:
            raise ParseError(str(exc)) from exc
        return ParsedInput("split", routing, None)
    raise ParseError(f"line {number}: unknown header {head[0]!r} (want 'ring' or 'split')")


def load_input(path: str) -> ParsedInput:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_input_text(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def dump_crossing(r: CrossingRouting, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"split {r.m}")
    for a, b in zip(r.u, r.v):
        lines.append(f"pair {a} {b}")
    return "\n".join(lines) + "\n"


def dump_boosted(b: BoostedInstance) -> str:
    """Ring-format text for a boosted instance; the fourth demand field
    pins the canonical equalized configuration."""
    lines = [
        f"# boosted from a {b.source.m}-demand crossing routing",
        f"# equalized load {b.equalized_load}",
        f"# zero-valued fillers dropped: {b.dropped_zero_shorts}",
        f"ring {b.instance.n}",
    ]
    canonical = b.canonical_routing.clockwise
    for (i, j, value), component, cw in zip(b.instance.demands, b.components, canonical):
        if component.kind == "crossing":
            role = f"demand {component.source_index} of the source"
        else:
            home = ",".join(str(e) for e in component.home_edges)
            role = ("capped " if component.capped else "") + f"filler, home edges {home}"
        lines.append(f"demand {i} {j} {value} {cw}  # {role}")
    return "\n".join(lines) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _report_rounding(result: BoundedRounding) -> None:
    r = result.pattern.routing
    big = r.max_demand
    cls = r.classify_delta()
    print(f"demands: {r.m}, largest value D = {fmt(big)}, spread class {fmt(cls.value)}")
    directions = [
        "clockwise" if result.pattern.choices >> i & 1 else "counter-clockwise"
        for i in range(r.m)
    ]
    for i, direction in enumerate(directions, start=1):
        print(f"  demand {i}: {direction}")
    print(f"method: {result.method.value}")
    if result.note:
        print(f"note: {result.note}")
    print(f"realized load increase: {fmt(result.realized)}")
    print(
        f"certified bound: {fmt(result.certified_bound)} of D "
        f"= {fmt(result.certified_bound * big)}"
    )
    before = split_loads(r).max_load
    after = unsplittable_loads(r, result.pattern.choices).max_load
    print(f"max edge load: {fmt(before)} split -> {fmt(after)} unsplittable")


def _round_reduced(r: CrossingRouting, method: str) -> BoundedRounding:
    if method == "main":
        return round_main(r)
    if method == "ssw":
        return ssw_round(r)
    if method == "medium":
        return round_medium(r)
    if method == "upper":
        return round_upper(r)
    value, pattern = min_additive_performance(r)
    return BoundedRounding(pattern, value / r.max_demand, RoundingMethod.BRUTE_FORCE)


def _report_lifted(result: ReductionResult, lifted: GeneralSplitRouting) -> None:
    base = result.trace.base
    print("routing on the original ring:")
    for t, ((i, j, value), cw) in enumerate(zip(lifted.instance.demands, lifted.clockwise)):
        direction = "clockwise" if value > 0 and cw == value else "counter-clockwise"
        print(f"  demand {t + 1} ({i} -> {j}, value {value}): {direction}")
    print(f"max edge load: {fmt(base.loads().max_load)} split -> {fmt(lifted.loads().max_load)} unsplittable")


def cmd_round(args) -> int:
    data = load_input(args.input)
    if data.kind == "split":
        result = _round_reduced(data.routing, args.method)
        _report_rounding(result)
        return 0
    reduction = to_crossing_form(data.general)
    if reduction.trivial:
        print("every demand is one-sided after uncrossing; nothing left to round")
        lifted = reduction.trace.base
        print(f"max edge load: {fmt(lifted.loads().max_load)}")
        return 0
    r = reduction.routing
    if r.m == 1:
        # a single split demand: send it to its larger side
        choices = 1 if r.u[0] >= r.v[0] else 0
        lifted = reduction.trace.lift(choices)
        print("one split demand after reduction; rounding it to its larger side")
        _report_lifted(reduction, lifted)
        return 0
    result = _round_reduced(r, args.method)
    print(f"reduced to {r.m} crossing demands")
    _report_rounding(result)
    lifted = reduction.trace.lift(result.pattern.choices)
    _report_lifted(reduction, lifted)
    return 0


def cmd_verify(args) -> int:
    data = load_input(args.input)
    if data.kind == "split":
        r = data.routing
        cls = r.classify_delta()
        print(f"split routing with {r.m} crossing demands on a {2 * r.m}-node ring")
        print(f"largest demand D = {fmt(r.max_demand)}")
        print(f"spread class {fmt(cls.value)} (witness demand {cls.index})")
        loads = split_loads(r)
        print(f"edge loads: {', '.join(str(x) for x in loads)}")
        print(f"max load: {fmt(loads.max_load)}")
        return 0
    general = data.general
    instance = general.instance
    split = general.split_indices()
    print(f"ring with {instance.n} nodes and {len(instance.demands)} demands")
    print(f"largest demand value: {fmt(instance.max_demand)}")
    print(f"split demands: {len(split)}, one-sided: {len(instance.demands) - len(split)}")
    loads = general.loads()
    print(f"edge loads: {', '.join(str(x) for x in loads)}")
    print(f"max load: {fmt(loads.max_load)}")
    return 0


def _require_crossing(data: ParsedInput) -> CrossingRouting:
    if data.kind == "split":
        return data.routing
    reduction = to_crossing_form(data.general)
    if reduction.trivial:
        raise ParseError("input reduces to an unsplittable routing; nothing to transform")
    return reduction.routing


def cmd_boost(args) -> int:
    data = load_input(args.input)
    r = _require_crossing(data)
    boosted = boost(r)
    _write_out(dump_boosted(boosted), args.out)
    if args.check:
        report = verify_boost(boosted)
        print(f"source minimum performance: {fmt(report.source_performance)}")
        print(f"split optimum: {fmt(report.split_optimum)}")
        print(f"unsplittable optimum: {fmt(report.unsplittable_optimum)}")
        print(f"gap: {fmt(report.gap)} (certified >= source performance)")
    return 0


def cmd_export_milp(args) -> int:
    model = build_milp(
        args.m, reduce_vars=not args.no_reduce, symmetry_break=not args.no_symmetry
    )
    export_lp(model, args.out)
    binaries = len(model.binary_names())
    print(
        f"wrote {args.out}: {len(model.variables)} variables "
        f"({binaries} binary), {len(model.constraints)} constraints"
    )
    return 0


def cmd_search(args) -> int:
    start = None
    if args.start is not None:
        data = load_input(args.start)
        if data.kind != "split":
            raise ParseError("--from expects a split-format routing")
        start = data.routing
    routing, value = heuristic_search(
        args.m,
        args.budget,
        args.seed,
        denominator=args.denominator,
        start=start,
        workers=args.workers,
    )
    comments = (
        f"heuristic search m={args.m} budget={args.budget} seed={args.seed} "
        f"denominator={args.denominator}",
        f"best normalized performance {value}",
    )
    _write_out(dump_crossing(routing, comments), args.out)
    print(f"best minimum performance over D: {fmt(value)}")
    return 0


def cmd_gen(args) -> int:
    catalog = builtin_instances()
    if args.name not in catalog:
        raise ParseError(
            f"unknown instance {args.name!r}; available: {', '.join(sorted(catalog))}"
        )
    maker = catalog[args.name]
    # each option is passed as the generator's parameter of the same name
    params = inspect.signature(maker).parameters
    given = {key: value for key in ("eps", "m") if (value := getattr(args, key)) is not None}
    for key in given:
        if key not in params:
            raise ParseError(f"{args.name} takes no --{key} argument")
    for key, param in params.items():
        if param.default is param.empty and key not in given:
            raise ParseError(f"{args.name} needs --{key}")
    r = maker(**given)
    comments = (f"built-in instance {args.name}",)
    _write_out(dump_crossing(r, comments), args.out)
    return 0


def _rational_arg(token: str) -> Fraction:
    try:
        return parse_rational(token, "value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringload",
        description="Exact rounding of split ring routings with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("round", help="round a split routing to an unsplittable one")
    p.add_argument("input", help="instance file (ring or split format)")
    p.add_argument(
        "--method",
        choices=("main", "ssw", "medium", "upper", "brute"),
        default="main",
        help="rounding construction (default: main)",
    )
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("verify", help="parse an instance and report its structure")
    p.add_argument("input")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("boost", help="emit the load-equalized embedding of a routing")
    p.add_argument("input")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument(
        "--check",
        action="store_true",
        help="also verify the gap bound by exact enumeration",
    )
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("export-milp", help="write the worst-case-search model as an LP file")
    p.add_argument("m", type=int, help="number of crossing demands (2..12)")
    p.add_argument("out", help="output LP path")
    p.add_argument("--no-reduce", action="store_true", help="keep all indicator binaries")
    p.add_argument("--no-symmetry", action="store_true", help="omit symmetry-breaking rows")
    p.set_defaults(func=cmd_export_milp)

    p = sub.add_parser("search", help="heuristic search for high-performance routings")
    p.add_argument("m", type=int)
    p.add_argument("--budget", type=int, default=40, help="number of restarts (default 40)")
    p.add_argument("--seed", required=True, help="deterministic run seed")
    p.add_argument("--denominator", type=int, default=20, help="grid denominator (default 20)")
    p.add_argument("--from", dest="start", help="split-format routing to seed the search")
    p.add_argument("--workers", type=int, default=1, help="parallel restart workers")
    p.add_argument("--out", help="write the best routing here (default: stdout)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="write a built-in instance")
    p.add_argument("name", help="catalog name (see errors for the list)")
    p.add_argument("--eps", type=_rational_arg, help="perturbation for skutella8 / skutella8_uniform")
    p.add_argument("--m", type=int, help="demand count for tight_even")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuaranteeViolated as exc:
        print(f"guarantee violated: {exc or type(exc).__name__}", file=sys.stderr)
        print(
            "this indicates a broken certified invariant; the inputs and the "
            "diagnostic above are worth preserving",
            file=sys.stderr,
        )
        return 3
    except RingLoadingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
