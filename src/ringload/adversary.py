"""Worst-case instance search: exact MILP model and heuristic ascent.

The MILP encodes, for a normalized crossing routing (largest demand 1,
so u_i + v_i <= 1), the smallest additive performance over all 2^m
reroutings, and asks for the routing maximizing it.  Every rerouting
mask gets its own block of variables pinning that walk's minimum,
maximum, end value, and performance; indicator binaries with big-M
coefficient m (valid because the total step mass is at most m) select
which prefix attains the extremes and which performance term binds.

A model is its size and two switches; its declarations and rows are
derived from them once.  It renders to a deterministic LP file, and
parse_lp accepts exactly that text.  A direct-arithmetic evaluator
substitutes a concrete routing into a model and returns the largest
feasible objective, which must agree between the reduced and unreduced
variants.

The heuristic search walks an integer grid with first-improvement
coordinate steps, projecting the partner direction down when a step
would overfill a demand, under a deterministic per-restart RNG; its
result is re-certified by the exact oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import ClassVar, NamedTuple

from .core import CrossingRouting, mask_performance, mask_walk, to_rational, walk_performance
from .errors import GuaranteeViolated, ParameterOutOfRange, ParseError
from .exact import _lowest_performance, min_additive_performance

CONTINUOUS = "continuous"
FREE = "free"
BINARY = "binary"


@dataclass(frozen=True)
class MilpVariable:
    """A ``continuous`` variable is >= 0 as in LP files, a ``free`` one
    unbounded and a ``binary`` one 0 or 1."""

    name: str
    kind: str = CONTINUOUS


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coeff * var) sense rhs, with integer coefficients only."""

    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str  # "<=", ">=" or "="
    rhs: int


def _mask_label(mask: int, m: int) -> str:
    return format(mask, f"0{(m + 3) // 4}x")


def kept_selectors(m: int, mask: int, reduce_vars: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indicator indices kept for the walk minimum and maximum.

    Unreduced, both families run over 0..m.  Reduced, index i is a
    candidate minimum when the step into it is not up and the step out
    of it is not down; the maximum is the mirror image, and a border
    counts as either kind of step.  Every argmin (argmax) plateau
    contains such an index even with zero-valued steps, so the
    reduction never cuts off the true extreme.
    """
    if not reduce_vars:
        full = tuple(range(m + 1))
        return full, full

    def step(k: int) -> int | None:
        """1 for an up step k, 0 for a down one, None past a border."""
        return mask >> (k - 1) & 1 if 1 <= k <= m else None

    keep_min = tuple(i for i in range(m + 1) if step(i) != 1 and step(i + 1) != 0)
    keep_max = tuple(i for i in range(m + 1) if step(i) != 0 and step(i + 1) != 1)
    return keep_min, keep_max


@lru_cache(maxsize=1)
def _declarations(m: int, reduce_vars: bool) -> tuple[MilpVariable, ...]:
    """The variable declarations of every model of size m, shared by all
    such models; only the last ``(m, reduce_vars)`` built is kept."""
    out = [MilpVariable(f"{side}_{i}") for side in "uv" for i in range(1, m + 1)]
    out.append(MilpVariable("E"))
    for z in range(1 << m):
        h = _mask_label(z, m)
        keep_min, keep_max = kept_selectors(m, z, reduce_vars)
        out += (
            MilpVariable(f"a_{h}", FREE),  # walk minimum can be negative
            MilpVariable(f"b_{h}"),
            MilpVariable(f"y_{h}", FREE),  # walk end can be negative
            MilpVariable(f"c_{h}"),
            MilpVariable(f"w_{h}", BINARY),
        )
        out += (MilpVariable(f"wmin_{h}_{i}", BINARY) for i in keep_min)
        out += (MilpVariable(f"wmax_{h}_{i}", BINARY) for i in keep_max)
    return tuple(out)


@dataclass(frozen=True)
class MilpModel:
    """A model is its size and its two switches; its variable declarations
    and its rows follow from them, and those of the last setting built
    are kept."""

    m: int
    reduce_vars: bool
    symmetry_break: bool
    objective: ClassVar[tuple[tuple[int, str], ...]] = ((1, "E"),)

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or not 2 <= self.m <= 12:
            raise ParameterOutOfRange(f"model size must be an integer in [2, 12], got {self.m!r}")

    @property
    def variables(self) -> tuple[MilpVariable, ...]:
        return _declarations(self.m, self.reduce_vars)

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return _rows(self.m, self.reduce_vars, self.symmetry_break)

    def binary_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.kind == BINARY)


@lru_cache(maxsize=1)
def _rows(m: int, reduce_vars: bool, symmetry_break: bool) -> tuple[LinearConstraint, ...]:
    """The rows of the size-m model with the given switches, shared by
    all such models; only the last setting built is kept."""
    masks = range(1 << m)
    lab = {z: _mask_label(z, m) for z in masks}
    kept = {z: kept_selectors(m, z, reduce_vars) for z in masks}
    # terms subtracting the walk prefix after step i: -v_j for set bits,
    # +u_j for clear ones; the pairs are shared by every row
    down = [(1, f"u_{j}") for j in range(1, m + 1)]
    up = [(-1, f"v_{j}") for j in range(1, m + 1)]

    def prefix(z: int, i: int) -> list[tuple[int, str]]:
        return [up[j] if z >> j & 1 else down[j] for j in range(i)]

    cons: list[LinearConstraint] = []
    for z in masks:
        cons.append(
            LinearConstraint(f"obj_cap_{lab[z]}", ((1, "E"), (-1, f"c_{lab[z]}")), "<=", 0)
        )
    for i in range(1, m + 1):
        cons.append(LinearConstraint(f"feas_{i}", ((1, f"u_{i}"), (1, f"v_{i}")), "<=", 1))
    for z in masks:
        for i in range(m + 1):
            terms = [(1, f"a_{lab[z]}")] + prefix(z, i)
            cons.append(LinearConstraint(f"min_ub_{lab[z]}_{i}", tuple(terms), "<=", 0))
    for z in masks:
        for i in kept[z][0]:
            terms = [(1, f"a_{lab[z]}")] + prefix(z, i)
            terms.append((-m, f"wmin_{lab[z]}_{i}"))
            cons.append(LinearConstraint(f"min_lb_{lab[z]}_{i}", tuple(terms), ">=", -m))
    for z in masks:
        terms = tuple((1, f"wmin_{lab[z]}_{i}") for i in kept[z][0])
        cons.append(LinearConstraint(f"minsel_{lab[z]}", terms, ">=", 1))
    for z in masks:
        for i in range(m + 1):
            terms = [(1, f"b_{lab[z]}")] + prefix(z, i)
            cons.append(LinearConstraint(f"max_lb_{lab[z]}_{i}", tuple(terms), ">=", 0))
    for z in masks:
        for i in kept[z][1]:
            terms = [(1, f"b_{lab[z]}")] + prefix(z, i)
            terms.append((m, f"wmax_{lab[z]}_{i}"))
            cons.append(LinearConstraint(f"max_ub_{lab[z]}_{i}", tuple(terms), "<=", m))
    for z in masks:
        terms = tuple((1, f"wmax_{lab[z]}_{i}") for i in kept[z][1])
        cons.append(LinearConstraint(f"maxsel_{lab[z]}", terms, ">=", 1))
    for z in masks:
        terms = [(1, f"y_{lab[z]}")] + prefix(z, m)
        cons.append(LinearConstraint(f"end_{lab[z]}", tuple(terms), "=", 0))
    for z in masks:
        h = lab[z]
        cons.append(
            LinearConstraint(f"perf_lb1_{h}", ((1, f"c_{h}"), (-2, f"b_{h}"), (1, f"y_{h}")), ">=", 0)
        )
        cons.append(
            LinearConstraint(f"perf_lb2_{h}", ((1, f"c_{h}"), (2, f"a_{h}"), (-1, f"y_{h}")), ">=", 0)
        )
        cons.append(
            LinearConstraint(
                f"perf_ub1_{h}",
                ((1, f"c_{h}"), (-2, f"b_{h}"), (1, f"y_{h}"), (-m, f"w_{h}")),
                "<=",
                0,
            )
        )
        cons.append(
            LinearConstraint(
                f"perf_ub2_{h}",
                ((1, f"c_{h}"), (2, f"a_{h}"), (-1, f"y_{h}"), (m, f"w_{h}")),
                "<=",
                m,
            )
        )
    if symmetry_break:
        # the search space is invariant under rotating demand labels and
        # swapping the two directions; pinning u_1 as a global minimum
        # entry cuts those equivalent copies
        for i in range(2, m + 1):
            cons.append(LinearConstraint(f"sym_u_{i}", ((1, "u_1"), (-1, f"u_{i}")), "<=", 0))
        for i in range(1, m + 1):
            cons.append(LinearConstraint(f"sym_v_{i}", ((1, "u_1"), (-1, f"v_{i}")), "<=", 0))
    return tuple(cons)


def build_milp(m: int, *, reduce_vars: bool = True, symmetry_break: bool = True) -> MilpModel:
    """Exact worst-case-search model for size m (2..12 supported)."""
    return MilpModel(m, reduce_vars, symmetry_break)


def _render_terms(terms) -> str:
    parts = []
    for pos, (coeff, name) in enumerate(terms):
        if pos or coeff < 0:
            parts.append("+" if coeff > 0 else "-")
        if abs(coeff) != 1:
            parts.append(str(abs(coeff)))
        parts.append(name)
    return " ".join(parts)


@lru_cache(maxsize=1)
def _row_lines(m: int, reduce_vars: bool, symmetry_break: bool) -> str:
    """The newline-ended objective and constraint lines of the size-m
    model's LP text with the given switches; only the last setting is kept."""
    lines = ["Maximize", f" obj: {_render_terms(MilpModel.objective)}", "Subject To"]
    for con in _rows(m, reduce_vars, symmetry_break):
        lines.append(f" {con.name}: {_render_terms(con.terms)} {con.sense} {con.rhs}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=1)
def _declaration_lines(m: int, reduce_vars: bool) -> str:
    """The Bounds, Binaries and End lines of every size-m model's LP text,
    each ended by a newline; only the last ``(m, reduce_vars)`` is kept."""
    variables = _declarations(m, reduce_vars)
    lines = ("Bounds", *(f" {v.name} free" for v in variables if v.kind == FREE),
             "Binaries", *(f" {v.name}" for v in variables if v.kind == BINARY), "End")
    return "\n".join(lines) + "\n"


def render_lp(model: MilpModel) -> str:
    """Deterministic LP-format text for the model (ASCII, LF endings)."""
    rows = _row_lines(model.m, model.reduce_vars, model.symmetry_break)
    return rows + _declaration_lines(model.m, model.reduce_vars)


def export_lp(model: MilpModel, path) -> str:
    """Write the rendered model to ``path``; returns the path."""
    text = render_lp(model)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return str(path)


def _expect_lines(found: list[list[str]], rendered: str, m: int) -> None:
    """Refuse unless ``found`` holds the tokens of the ``rendered`` lines,
    line by line; a rendered line separates its tokens by single spaces."""
    lines = rendered.splitlines()
    if len(found) != len(lines):
        raise ParseError(f"{len(found)} lines where the size-{m} model renders {len(lines)}")
    for tokens, line in zip(found, lines):
        joined = " ".join(tokens)
        if joined != line.strip():
            raise ParseError(f"{joined!r} is not the size-{m} model's {line.strip()!r}")


def parse_lp(text: str) -> MilpModel:
    """The model whose ``render_lp`` text this is.

    The size and both switches are read off the text (its ``feas_`` and
    ``sym_`` rows and its number of binaries); the text is accepted only
    if its lines equal that model's rendered lines token by token, with
    blank lines, comment lines (``\\`` or ``*``) and the width of
    whitespace runs ignored.  Any other text raises ParseError.  An exact
    rendering is accepted with one comparison.
    """
    m = text.count("\n feas_")
    # the lines between Binaries and End: the newlines from Binaries on, less 3
    binaries = text.count("\n", text.rfind("\nBinaries\n")) - 3
    if 2 <= m <= 12 and binaries in ((m + 5) << (m - 1), (2 * m + 3) << m):
        # the model this may render; a wrong guess goes on to the token comparison
        reduce_vars = binaries < (2 * m + 3) << m
        symmetry_break = "\n sym_" in text
        tail = _declaration_lines(m, reduce_vars)
        # declarations first, as below
        if text.endswith(tail) and text == _row_lines(m, reduce_vars, symmetry_break) + tail:
            return MilpModel(m, reduce_vars, symmetry_break)
    lines = [line.split() for line in text.splitlines()]
    found = [tokens for tokens in lines if tokens and not tokens[0].startswith(("\\", "*"))]
    m = sum(1 for tokens in found if tokens[0].startswith("feas_"))
    symmetry_break = any(tokens[0].startswith("sym_") for tokens in found)
    if ["Bounds"] not in found or ["Binaries"] not in found:
        raise ParseError("no Bounds or Binaries section")
    binaries = len(found) - found.index(["Binaries"]) - 2
    try:
        model = MilpModel(m, binaries < (2 * m + 3) << m, symmetry_break)
    except ParameterOutOfRange as exc:
        raise ParseError(f"{m} feasibility rows: {exc}") from None
    # declarations first: a short text must not make the parser build
    # the rows of a large model
    head = found.index(["Bounds"])
    _expect_lines(found[head:], _declaration_lines(m, model.reduce_vars), m)
    _expect_lines(found[:head], _row_lines(m, model.reduce_vars, symmetry_break), m)
    return model


_SENSES = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}


@lru_cache(maxsize=1)
def _layout(m: int, reduce_vars: bool, symmetry_break: bool):
    """Declaration positions for ``max_feasible_performance``: per mask its
    label, ``a_`` and ``(index, position)`` of each kept selector; per row
    its ``(coeff, position)`` terms and sense.  Only the last setting is kept."""
    pos = {v.name: k for k, v in enumerate(_declarations(m, reduce_vars))}
    blocks = []
    for z in range(1 << m):
        h = _mask_label(z, m)
        keep_min, keep_max = kept_selectors(m, z, reduce_vars)
        blocks.append((h, pos[f"a_{h}"], tuple((i, pos[f"wmin_{h}_{i}"]) for i in keep_min),
                       tuple((i, pos[f"wmax_{h}_{i}"]) for i in keep_max)))
    rows = tuple((con, tuple((coeff, pos[name]) for coeff, name in con.terms), _SENSES[con.sense])
                 for con in _rows(m, reduce_vars, symmetry_break))
    return tuple(blocks), rows


def max_feasible_performance(model: MilpModel, r: CrossingRouting) -> Fraction:
    """Largest objective value feasible in the model once u, v are fixed
    to the D-normalized routing, found by direct arithmetic.

    Every per-mask block pins its variables exactly (the indicators must
    select a true extreme), so the answer is the smallest per-mask
    performance; the full assignment is then checked against every
    constraint of the model.
    """
    if r.m != model.m:
        raise ParameterOutOfRange(f"routing has m={r.m}, model expects {model.m}")
    # every value is an integer numerator over `scale`: u[i] / D is
    # U[i] / scale, walks come in the same units, and a binary 1 is `scale`
    _, us, vs = r.scaled
    scale = max(a + b for a, b in zip(us, vs))
    blocks, rows = _layout(model.m, model.reduce_vars, model.symmetry_break)
    # declared first: u_1..u_m, v_1..v_m, E; unchosen selectors stay 0
    values = [*us, *vs] + [0] * (len(model.variables) - 2 * model.m)

    perfs = []
    for z, (h, at, keep_min, keep_max) in enumerate(blocks):
        prefix = mask_walk(us, vs, z)
        lo, hi = min(prefix), max(prefix)
        end = prefix[-1]
        perf = walk_performance(prefix)
        # a_, b_, y_, c_, w_ are declared in a row
        values[at:at + 5] = lo, hi, end, perf, 0 if perf == 2 * hi - end else scale
        min_at = [k for i, k in keep_min if prefix[i] == lo]
        max_at = [k for i, k in keep_max if prefix[i] == hi]
        if not min_at:
            raise GuaranteeViolated(f"reduction lost every argmin selector of mask {h}")
        if not max_at:
            raise GuaranteeViolated(f"reduction lost every argmax selector of mask {h}")
        values[min_at[0]] = scale
        values[max_at[0]] = scale
        perfs.append(perf)
    best = min(perfs)
    values[2 * model.m] = best

    for con, terms, holds in rows:
        lhs = 0
        for coeff, k in terms:
            lhs += coeff * values[k]
        if not holds(lhs, con.rhs * scale):
            raise ParameterOutOfRange(
                f"routing is inadmissible for this model: {con.name} has "
                f"lhs {Fraction(lhs, scale)}, wants {con.sense} {con.rhs}"
            )
    return Fraction(best, scale)


# ---------------------------------------------------------------------------
# heuristic search


class SearchResult(NamedTuple):
    routing: CrossingRouting
    value: Fraction  # minimum additive performance over D


def _ascend(task) -> tuple[Fraction, int, tuple[int, ...]]:
    """One restart: sample (or take) a grid point and climb to a local
    maximum with first-improvement coordinate steps.

    Performance over D does not depend on units, so the grid entries are
    the walk steps and the current value is kept as the integers p / q.
    A candidate with largest demand Dc improves exactly when its minimum
    performance exceeds T = p * Dc // q.  It is first walked on the masks
    that rejected recent candidates (at most two, newest first, starting
    from the current optimum mask): a walk performing at most T rejects it
    with that mask as certificate.  Otherwise a threshold search that stops
    at the first mask performing at most T decides.
    """
    m, den, seed, index, fixed_start = task
    if fixed_start is not None:
        grid = list(fixed_start)
    else:
        rng = Random(f"{seed}:{index}")
        grid = []
        for _ in range(m):
            grid.append(rng.randint(1, den - 1))
        for i in range(m):
            grid.append(rng.randint(1, den - grid[i]))
    p, mask = _lowest_performance(grid[:m], grid[m:])
    q = max(a + b for a, b in zip(grid[:m], grid[m:]))
    masks = [mask]
    improved = True
    while improved:
        improved = False
        for c in range(2 * m):
            partner = c + m if c < m else c - m
            for step in (1, -1):
                cand = grid[c] + step
                if not 1 <= cand <= den - 1:
                    continue
                old_c, old_p = grid[c], grid[partner]
                grid[c] = cand
                if grid[c] + grid[partner] > den:
                    # project the partner down instead of rejecting
                    grid[partner] = den - grid[c]
                down, up = grid[:m], grid[m:]
                # a move changes only demand c % m: the largest demand stays q
                # unless this one outgrows it, or was the largest and shrank
                big = grid[c] + grid[partner]
                if big < q:
                    big = q if old_c + old_p < q else max(a + b for a, b in zip(down, up))
                limit = p * big // q + 1
                if any(mask_performance(down, up, z) < limit for z in masks):
                    grid[c], grid[partner] = old_c, old_p
                    continue
                hit = _lowest_performance(down, up, limit, first=True)
                if hit is None:
                    p, mask = _lowest_performance(down, up)
                    q = big
                    masks = [mask]
                    improved = True
                    break
                perf, mask = hit
                walked = mask_performance(down, up, mask)
                if walked != perf or walked >= limit:
                    raise GuaranteeViolated(
                        f"threshold search reported mask {mask:#x} at {perf} below {limit}, "
                        f"but its walk performs {walked}"
                    )
                masks = [mask, masks[0]]
                grid[c], grid[partner] = old_c, old_p
            if improved:
                break
    return Fraction(p, q), index, tuple(grid)


def heuristic_search(
    m: int,
    budget: int,
    seed,
    *,
    denominator: int = 20,
    start: CrossingRouting | None = None,
    workers: int = 1,
) -> SearchResult:
    """Random-restart first-improvement ascent over the normalized grid.

    ``budget`` counts restarts; ``seed`` pins the whole run.  ``start``
    seeds the first restart from a given routing, which must sit on the
    grid after dividing by its largest demand.  The outcome is identical
    for any ``workers`` count.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParameterOutOfRange(f"need a positive integer m, got {m!r}")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ParameterOutOfRange(f"need a positive restart budget, got {budget!r}")
    if not isinstance(denominator, int) or isinstance(denominator, bool) or denominator < 2:
        raise ParameterOutOfRange(f"grid denominator must be an integer >= 2, got {denominator!r}")
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ParameterOutOfRange(f"worker count must be a positive integer, got {workers!r}")

    start_grid = None
    if start is not None:
        if start.m != m:
            raise ParameterOutOfRange(f"start routing has m={start.m}, expected {m}")
        big = start.max_demand
        ints = []
        for x in list(start.u) + list(start.v):
            scaled = x / big * denominator
            if scaled.denominator != 1 or not 1 <= scaled <= denominator - 1:
                raise ParameterOutOfRange(
                    f"start entry {x} does not normalize onto the 1/{denominator} grid"
                )
            ints.append(int(scaled))
        start_grid = tuple(ints)

    tasks = [
        (m, denominator, str(seed), t, start_grid if t == 0 else None)
        for t in range(budget)
    ]
    if workers == 1:
        outcomes = [_ascend(task) for task in tasks]
    else:
        # imported on use: the process pool machinery adds ~2 MiB to every
        # process that imports the package, most of which never search
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_ascend, tasks))
    # highest value wins; ties go to the earliest restart, making the
    # result independent of scheduling
    value, _, grid = max(outcomes, key=lambda out: (out[0], -out[1]))
    routing = CrossingRouting(
        tuple(Fraction(g, denominator) for g in grid[:m]),
        tuple(Fraction(g, denominator) for g in grid[m:]),
    )
    certified = min_additive_performance(routing).value / routing.max_demand
    if certified != value:
        raise GuaranteeViolated(f"search reports {value}, its routing's optimum is {certified}")
    if start is not None:
        seeded = min_additive_performance(start).value / start.max_demand
        if value < seeded:
            raise GuaranteeViolated(f"search fell to {value}, below its seed's {seeded}")
    return SearchResult(routing, value)


# ---------------------------------------------------------------------------
# built-in instances


def skutella8(eps=0) -> CrossingRouting:
    """Eight-demand family with minimum performance 11/10 of D at eps=0;
    bumping the six marked entries by eps >= 0 keeps the optimum at
    11 + 2*eps while D grows as 10 + 2*eps."""
    eps = to_rational(eps)
    if eps < 0:
        raise ParameterOutOfRange(f"eps must be >= 0, got {eps}")
    base_u = (4, 4, 6, 2, 7, 1, 7, 2)
    base_v = (6, 4, 4, 2, 3, 7, 3, 2)
    bump = (1, 1, 1, 0, 1, 1, 1, 0)
    return CrossingRouting(
        tuple(a + eps * b for a, b in zip(base_u, bump)),
        tuple(a + eps * b for a, b in zip(base_v, bump)),
    )


def skutella8_uniform(eps=0) -> CrossingRouting:
    """Variant of skutella8 bumping every entry by eps in [0, 1]."""
    eps = to_rational(eps)
    if not 0 <= eps <= 1:
        raise ParameterOutOfRange(f"eps must be in [0, 1], got {eps}")
    base_u = (4, 4, 6, 2, 7, 1, 7, 2)
    base_v = (6, 4, 4, 2, 3, 7, 3, 2)
    return CrossingRouting(
        tuple(a + eps for a in base_u),
        tuple(a + eps for a in base_v),
    )


def seven18() -> CrossingRouting:
    """Seven-demand routing whose minimum performance is 19/18 of D."""
    return CrossingRouting((7, 11, 6, 10, 6, 8, 5), (11, 3, 12, 2, 2, 10, 5))


def seven18_alt() -> CrossingRouting:
    """Different split of the same seven demand values, same optimum."""
    return CrossingRouting((5, 12, 5, 2, 4, 10, 3), (13, 2, 13, 10, 4, 8, 7))


def tight3() -> CrossingRouting:
    """Three demands where rounding must pay the full largest demand."""
    return CrossingRouting((2, 3, 3), (2, 1, 1))


def tight5() -> CrossingRouting:
    """Five-demand relative of tight3 with the same full-D gap."""
    return CrossingRouting((2, 2, 2, 3, 3), (2, 2, 2, 1, 1))


def tight6() -> CrossingRouting:
    """Six unit demands split evenly: the gap is D for even counts."""
    return CrossingRouting((1,) * 6, (1,) * 6)


def tight_even(m: int) -> CrossingRouting:
    """Evenly split unit demands; the full-D gap needs an even count."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 2 or m % 2:
        raise ParameterOutOfRange(f"need an even demand count >= 2, got {m!r}")
    return CrossingRouting((1,) * m, (1,) * m)


def builtin_instances() -> dict[str, object]:
    """Named generator catalog for the CLI and tests."""
    return {
        "skutella8": skutella8,
        "skutella8_uniform": skutella8_uniform,
        "seven18": seven18,
        "seven18_alt": seven18_alt,
        "tight3": tight3,
        "tight5": tight5,
        "tight6": tight6,
        "tight_even": tight_even,
    }
