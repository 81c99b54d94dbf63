"""Shared generators and independent oracles for the test suite.

The oracles here recompute everything from first principles (explicit
per-edge membership loops, no prefix sums, no closed forms) so that the
library and the tests can only agree by being right.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from random import Random

from hypothesis import strategies as st

from ringload import (
    CCW,
    CW,
    BoostedInstance,
    BoundedRounding,
    CrossingComponent,
    CrossingRouting,
    GeneralSplitRouting,
    MalformedRouting,
    Pattern,
    RingInstance,
    RoundingMethod,
    ShortComponent,
    UncrossStep,
    additive_performance,
    backward_greedy,
    demands_cross,
    min_additive_performance,
    round_via_induced,
    split_loads,
)
from ringload.core import mask_walk

positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(24), max_denominator=12
)


@st.composite
def crossing_routings(draw, min_m: int = 1, max_m: int = 8) -> CrossingRouting:
    m = draw(st.integers(min_m, max_m))
    u = tuple(draw(positive_rationals) for _ in range(m))
    v = tuple(draw(positive_rationals) for _ in range(m))
    return CrossingRouting(u, v)


@st.composite
def routed_patterns(draw, min_m: int = 1, max_m: int = 8) -> Pattern:
    r = draw(crossing_routings(min_m, max_m))
    choices = draw(st.integers(0, (1 << r.m) - 1))
    start = draw(st.fractions(min_value=-24, max_value=24, max_denominator=12))
    return Pattern(r, choices, start)


@st.composite
def general_routings(draw, max_demands: int = 8) -> GeneralSplitRouting:
    n = draw(st.integers(4, 12))
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    count = draw(st.integers(1, min(max_demands, len(pool))))
    picks = draw(st.permutations(pool))[:count]
    demands = []
    parts = []
    for i, j in sorted(picks):
        value = draw(st.fractions(min_value=0, max_value=12, max_denominator=8))
        demands.append((i, j, value))
        if value == 0:
            parts.append(Fraction(0))
        else:
            # weight in [0, 1] with exact endpoints reachable
            num = draw(st.integers(0, 16))
            parts.append(value * Fraction(num, 16))
    return GeneralSplitRouting(RingInstance(n, tuple(demands)), tuple(parts))


def cw_edges(i: int, j: int) -> frozenset[int]:
    """Edges of the clockwise arc i -> j (i < j): edges i..j-1."""
    return frozenset(range(i, j))


def ccw_edges(n: int, i: int, j: int) -> frozenset[int]:
    """Edges of the counter-clockwise arc i -> j on an n-ring: the
    edges j..n and 1..i-1."""
    return frozenset(range(j, n + 1)) | frozenset(range(1, i))


def scaled_ring_loads(n: int, arcs) -> tuple[int, list[int]]:
    """``(denom, loads)`` of an n-ring carrying ``(i, j, cw_part,
    ccw_part)`` arcs with rational parts: the least common denominator
    of all parts and, per edge k at ``loads[k - 1]``, its integer load in
    units of ``1 / denom`` by explicit membership (edge k is on the
    clockwise arc exactly when i <= k < j)."""
    arcs = list(arcs)
    denom = lcm(*(x.denominator for _, _, a, b in arcs for x in (a, b)))
    loads = []
    for k in range(1, n + 1):
        total = Fraction(0)
        for i, j, a, b in arcs:
            total += a if i <= k < j else b
        loads.append(int(total * denom))
    return denom, loads


# characters a parser fuzz splices in: the formats' own digits, signs,
# separators and keyword letters, plus non-ASCII digits
FUZZ_ALPHABET = "0123456789/-+ .:#\n\tabcdefgilmnoprstuvwxE_²٣"

# whole tokens a parser fuzz swaps in: small integers and fractions with
# any small numerator and denominator, and near-misses of both
fuzz_tokens = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(("", "x", "1.5", "1e3", "²", "+1", "--1", "1/", "/2", "1//2")),
)


@st.composite
def mutated_texts(draw, seeds, max_edits: int = 3) -> str:
    """One of ``seeds`` after 1..max_edits random edits, each deleting,
    inserting or replacing one character, swapping one whitespace-separated
    token for a ``fuzz_tokens`` draw, or duplicating or dropping one line."""
    text = draw(st.sampled_from(seeds))
    # token swaps reach the number parsers most directly, so they count double
    edits = ("delete", "insert", "replace", "token", "token", "duplicate", "drop")
    for _ in range(draw(st.integers(1, max_edits))):
        edit = draw(st.sampled_from(edits))
        if edit == "token":
            # odd positions are the separating whitespace runs
            pieces = re.split(r"(\s+)", text)
            k = 2 * draw(st.integers(0, len(pieces) // 2))
            pieces[k] = draw(fuzz_tokens)
            text = "".join(pieces)
        elif edit in ("duplicate", "drop"):
            lines = text.splitlines(keepends=True)
            if lines:
                k = draw(st.integers(0, len(lines) - 1))
                lines[k:k + 1] = [lines[k]] * (2 if edit == "duplicate" else 0)
                text = "".join(lines)
        else:
            pos = draw(st.integers(0, len(text)))
            char = "" if edit == "delete" else draw(st.sampled_from(FUZZ_ALPHABET))
            text = text[:pos] + char + text[pos + (edit != "insert"):]
    return text


def crossing_edge_load(r: CrossingRouting, k: int, choices=None) -> Fraction:
    """Load on edge k (1..2m) by explicit membership: demand i covers
    edges i..i+m-1 clockwise, the rest counter-clockwise.  With a
    choices mask, each demand goes fully one way."""
    m = r.m
    total = Fraction(0)
    for i in range(1, m + 1):
        on_cw = i <= k <= i + m - 1
        if choices is None:
            total += r.u[i - 1] if on_cw else r.v[i - 1]
        else:
            full = r.u[i - 1] + r.v[i - 1]
            goes_cw = choices >> (i - 1) & 1
            if on_cw == bool(goes_cw):
                total += full
    return total


def naive_prefix_values(r: CrossingRouting, choices: int, start) -> tuple[Fraction, ...]:
    """Trajectory of a pattern by plain rational steps from its start."""
    values = [Fraction(start)]
    for i in range(r.m):
        values.append(values[-1] + (r.v[i] if choices >> i & 1 else -r.u[i]))
    return tuple(values)


def naive_split_loads(r: CrossingRouting) -> tuple[Fraction, ...]:
    return tuple(crossing_edge_load(r, k) for k in range(1, 2 * r.m + 1))


def naive_unsplittable_loads(r: CrossingRouting, choices: int) -> tuple[Fraction, ...]:
    return tuple(crossing_edge_load(r, k, choices) for k in range(1, 2 * r.m + 1))


def naive_performance(r: CrossingRouting, choices: int) -> Fraction:
    """Worst per-edge load increase, straight from the loads."""
    split = naive_split_loads(r)
    rerouted = naive_unsplittable_loads(r, choices)
    return max(b - a for a, b in zip(split, rerouted))


def naive_min_performance(r: CrossingRouting, reverse: bool = False):
    """(value, lowest optimal mask) by plain mask enumeration over the
    per-edge loads of every mask (explicit membership, as in
    ``crossing_edge_load``, on integers over the least common denominator
    of the parts); the reverse flag flips the visiting order to probe
    order independence."""
    m = r.m
    scale = lcm(*(x.denominator for x in r.u + r.v))
    u = [int(x * scale) for x in r.u]
    v = [int(x * scale) for x in r.v]
    # the demands (0-based) whose clockwise path covers edge k, k = 1..2m
    clockwise = [{i for i in range(m) if i + 1 <= k <= i + m} for k in range(1, 2 * m + 1)]
    split = [sum(u[i] if i in cw else v[i] for i in range(m)) for cw in clockwise]
    masks = range((1 << r.m) - 1, -1, -1) if reverse else range(1 << r.m)
    best = None
    best_mask = None
    for mask in masks:
        perf = max(
            sum(u[i] + v[i] for i in range(m) if (i in cw) == bool(mask >> i & 1)) - load
            for cw, load in zip(clockwise, split)
        )
        if best is None or perf < best or (perf == best and mask < best_mask):
            best = perf
            best_mask = mask
    return Fraction(best, scale), best_mask


def naive_unsplittable_optimum(instance: RingInstance):
    """(value, clockwise tuple) minimizing the max edge load over all
    one-sided routings, by ascending-mask enumeration over the demands
    with positive value (zero-value demands stay counter-clockwise).
    Ties keep the lowest mask."""
    free = [t for t, (_, _, value) in enumerate(instance.demands) if value > 0]
    best = None
    best_cw = None
    for mask in range(1 << len(free)):
        cw = [Fraction(0)] * len(instance.demands)
        for pos, t in enumerate(free):
            if mask >> pos & 1:
                cw[t] = instance.demands[t][2]
        load = GeneralSplitRouting(instance, tuple(cw)).loads().max_load
        if best is None or load < best:
            best = load
            best_cw = tuple(cw)
    return best, best_cw


def gray_code_unsplittable(instance: RingInstance, base_cw, free) -> tuple[Fraction, tuple]:
    """Reference for ``exact._enumerate_unsplittable``: (value, clockwise
    tuple) by a Gray-code walk over all 2^k masks of the ``free`` demands
    with incremental load updates and a full ``max`` at every mask; the
    rest stay as given in ``base_cw``.  Ties keep the lowest mask."""
    k = len(free)
    n = instance.n
    demands = instance.demands
    free_set = set(free)
    denom, loads = scaled_ring_loads(n, (
        (i, j, Fraction(0), value) if t in free_set else (i, j, base_cw[t], value - base_cw[t])
        for t, (i, j, value) in enumerate(demands)
    ))
    scaled_val = [int(demands[t][2] * denom) for t in free]
    free_paths = [
        (sorted(e - 1 for e in cw_edges(i, j)), sorted(e - 1 for e in ccw_edges(n, i, j)))
        for i, j, _ in (demands[t] for t in free)
    ]
    best_val = max(loads)
    best_mask = 0
    gray_prev = 0
    for counter in range(1, 1 << k):
        gray = counter ^ (counter >> 1)
        bit = (gray ^ gray_prev).bit_length() - 1
        gray_prev = gray
        value = scaled_val[bit]
        cw_path, ccw_path = free_paths[bit]
        if gray >> bit & 1:  # flipped onto the clockwise path
            for e in cw_path:
                loads[e] += value
            for e in ccw_path:
                loads[e] -= value
        else:
            for e in cw_path:
                loads[e] -= value
            for e in ccw_path:
                loads[e] += value
        val = max(loads)
        if val < best_val or (val == best_val and gray < best_mask):
            best_val = val
            best_mask = gray
    cw_out = list(base_cw)
    for pos, t in enumerate(free):
        cw_out[t] = demands[t][2] if best_mask >> pos & 1 else Fraction(0)
    return Fraction(best_val, denom), tuple(cw_out)


def rescanning_boost(r: CrossingRouting) -> BoostedInstance:
    """Reference for ``boost``: the same construction, capping the
    oversized single-edge filler with the lowest ring position after
    rebuilding the position map and rescanning every filler on each
    cap.  Each short's direction in the canonical routing is read off
    its home edges, so a match also checks that the library routes
    every short on its home path."""
    m = r.m
    big = r.max_demand
    profile = split_loads(r)
    top = profile.max_load
    ring = []
    for k in range(1, 2 * m + 1):
        ring.append(("o", k))
        ring.append(("h", k))
    shorts = []
    dropped = 0
    for k in range(1, 2 * m + 1):
        gap = top - profile.loads[k - 1]
        if gap == 0:
            dropped += 1
            continue
        succ = ("o", k + 1) if k < 2 * m else ("o", 1)
        shorts.append([("o", k), ("h", k), gap, False])
        shorts.append([("h", k), succ, gap, False])
    fresh = 0
    while True:
        position = {tok: idx for idx, tok in enumerate(ring)}

        def arc_len(rec):
            a, b = position[rec[0]], position[rec[1]]
            return b - a if b > a else len(ring) - a

        oversized = [rec for rec in shorts if rec[2] > big and arc_len(rec) == 1]
        if not oversized:
            break
        rec = min(oversized, key=lambda rec: position[rec[0]])
        a, b, value, _ = rec
        fresh += 1
        waypoint = ("x", fresh)
        ring.insert(position[a] + 1, waypoint)
        rec[2] = big
        rec[3] = True
        shorts.append([a, waypoint, value - big, False])
        shorts.append([waypoint, b, value - big, False])
    n = len(ring)
    position = {tok: idx + 1 for idx, tok in enumerate(ring)}
    demands = []
    cw = []
    components = []
    for i in range(1, m + 1):
        pa, pb = position[("o", i)], position[("o", i + m)]
        assert pa < pb
        demands.append((pa, pb, r.u[i - 1] + r.v[i - 1]))
        cw.append(r.u[i - 1])
        components.append(CrossingComponent(i))
    for a, b, value, capped in shorts:
        assert 0 < value <= big
        pa, pb = position[a], position[b]
        home = tuple(range(pa, pb)) if pb > pa else tuple(range(pa, n + 1))
        assert len(home) >= 2 if capped else len(home) == 1
        i, j = min(pa, pb), max(pa, pb)
        demands.append((i, j, value))
        if frozenset(home) == cw_edges(i, j):
            cw.append(value)
        elif frozenset(home) == ccw_edges(n, i, j):
            cw.append(Fraction(0))
        else:
            raise AssertionError(f"home edges {home} are neither arc of demand ({i},{j})")
        components.append(ShortComponent(home, capped))
    canonical = GeneralSplitRouting(RingInstance(n, tuple(demands)), tuple(cw))
    return BoostedInstance(canonical, r, tuple(components), top, dropped)


def general_edge_load(g: GeneralSplitRouting, k: int) -> Fraction:
    """Load on edge k of a general split routing by explicit path walks."""
    n = g.instance.n
    total = Fraction(0)
    for (i, j, value), cw in zip(g.instance.demands, g.clockwise):
        cw_edges = set(range(i, j))
        if k in cw_edges:
            total += cw
        else:
            total += value - cw
    return total


def naive_general_loads(g: GeneralSplitRouting) -> tuple[Fraction, ...]:
    return tuple(general_edge_load(g, k) for k in range(1, g.instance.n + 1))


def naive_uncross(s: GeneralSplitRouting):
    """Reference for ``uncross_parallel``: the same exchanges in plain
    ``Fraction`` arithmetic, rescanning every split pair after each
    exchange and checking every load against the previous sweep."""
    instance = s.instance
    n = instance.n
    demands = instance.demands
    cw = list(s.clockwise)
    steps: list[UncrossStep] = []

    def arcs():
        for t, (i, j, value) in enumerate(demands):
            yield i, j, cw[t], value - cw[t]

    denom, before = scaled_ring_loads(n, arcs())

    def pick_pair():
        split = [t for t in range(len(demands)) if 0 < cw[t] < demands[t][2]]
        # deterministic: scan pairs ordered by endpoint labels, then index
        order = sorted(split, key=lambda t: (demands[t][0], demands[t][1], t))
        for a_pos in range(len(order)):
            for b_pos in range(a_pos + 1, len(order)):
                sa, sb = order[a_pos], order[b_pos]
                if not demands_cross(demands[sa][:2], demands[sb][:2]):
                    return sa, sb
        return None

    while True:
        pair = pick_pair()
        if pair is None:
            break
        sa, sb = pair
        ia, ja, da = demands[sa]
        ib, jb, db = demands[sb]
        combo = None
        for pa in (CW, CCW):
            ea = cw_edges(ia, ja) if pa == CW else ccw_edges(n, ia, ja)
            for pb in (CW, CCW):
                eb = cw_edges(ib, jb) if pb == CW else ccw_edges(n, ib, jb)
                if not ea & eb:
                    combo = (pa, pb)
                    break
            if combo:
                break
        if combo is None:
            raise MalformedRouting(
                f"no edge-disjoint path combination for parallel demands "
                f"({ia},{ja}) and ({ib},{jb})"
            )
        pa, pb = combo
        # amount limited by the flow still on each complement path
        room_a = da - cw[sa] if pa == CW else cw[sa]
        room_b = db - cw[sb] if pb == CW else cw[sb]
        amount = min(room_a, room_b)
        assert amount > 0
        cw[sa] += amount if pa == CW else -amount
        cw[sb] += amount if pb == CW else -amount
        units = amount * s.scaled[0]
        assert units.denominator == 1
        steps.append(UncrossStep(sa, sb, pa, pb, units.numerator, s.scaled[0]))
        # at least one demand came off the fence
        assert not (0 < cw[sa] < da) or not (0 < cw[sb] < db)
        new_denom, after = scaled_ring_loads(n, arcs())
        # x / new_denom <= y / denom, cross-multiplied
        assert all(
            x * denom <= y * new_denom for x, y in zip(after, before)
        ), "uncrossing raised a load"
        denom, before = new_denom, after
    return GeneralSplitRouting(instance, tuple(cw)), tuple(steps)


def _rotate_routing(r: CrossingRouting, shift: int) -> CrossingRouting:
    """Renumber demands so that old demand shift+1 becomes demand 1.
    Demands that wrap past m re-enter with their two directions swapped."""
    return CrossingRouting(r.u[shift:] + r.v[:shift], r.v[shift:] + r.u[:shift])


def _unrotate_pattern(r: CrossingRouting, rotated: Pattern, shift: int) -> Pattern:
    """Carry a pattern on the rotated routing back to the input indexing,
    flipping the choice bits of wrapped demands and re-centering the start
    so the anchor sum x + y is preserved."""
    kept = r.m - shift
    choices = (rotated.choices & ((1 << kept) - 1)) << shift
    choices |= ~rotated.choices >> kept & ((1 << shift) - 1)
    denom, us, vs = r.scaled
    step_sum = mask_walk(us, vs, choices)[-1]
    start = rotated.start + Fraction(rotated.walk[-1] - step_sum, 2 * denom)
    pattern = Pattern(r, choices, start)
    assert additive_performance(pattern) == additive_performance(rotated)
    return pattern


def _swap_directions(r: CrossingRouting) -> CrossingRouting:
    return CrossingRouting(r.v, r.u)


def _reflect_pattern(target: CrossingRouting, p: Pattern) -> Pattern:
    """Mirror a pattern across D/2 onto the direction-swapped routing."""
    assert target.u == p.routing.v and target.v == p.routing.u
    full = (1 << p.routing.m) - 1
    return Pattern(target, p.choices ^ full, p.routing.max_demand - p.start)


def _last_demand(r: CrossingRouting) -> Fraction:
    return r.u[-1] + r.v[-1]


def _rational_extended_backward(rr: CrossingRouting) -> tuple[Pattern, bool]:
    """The backward greedy pattern ending at (D + d_m)/2 if it starts at
    or below D/2, else the one ending at (D - d_m)/2, plus which case
    applied."""
    big = rr.max_demand
    d_last = _last_demand(rr)
    last = 1 << (rr.m - 1)
    high = backward_greedy(rr, (big + d_last) / 2)
    assert high.choices & last
    if high.start <= big / 2:
        return high, True
    low = backward_greedy(rr, (big - d_last) / 2)
    assert not low.choices & last
    assert low.start == high.start and low.choices == high.choices ^ last
    return low, False


def rational_round_medium(r: CrossingRouting) -> BoundedRounding:
    """Reference for ``round_medium``: the same construction on rotated
    ``CrossingRouting``s and ``Pattern``s, with rational anchors."""
    cls = r.classify_delta()
    shift = cls.index % r.m
    rr = _rotate_routing(r, shift)
    chosen, _ = _rational_extended_backward(rr)
    pattern = _unrotate_pattern(r, chosen, shift)
    return BoundedRounding(pattern, Fraction(3, 2) - cls.value / 2, RoundingMethod.MEDIUM)


def rational_round_upper(r: CrossingRouting) -> BoundedRounding:
    """Reference for ``round_upper`` (spread class at most 2/5): rotate,
    mirror onto the direction-swapped routing when the extremal walk
    starts above D/2, test the start window or combine induced patterns,
    then mirror and rotate back, all on rational anchors."""
    cls = r.classify_delta()
    delta = cls.value
    assert delta <= Fraction(2, 5)
    shift = cls.index % r.m
    rr = _rotate_routing(r, shift)
    chosen, used_high = _rational_extended_backward(rr)
    if used_high:
        work, base = rr, chosen
    else:
        work = _swap_directions(rr)
        base = _reflect_pattern(work, chosen)
    big = work.max_demand
    d_last = _last_demand(work)
    assert base.end == (big + d_last) / 2 and base.start <= big / 2
    certified = Fraction(7, 6) + delta / 3
    if abs(base.start - (big - d_last) / 2) <= big / 6 + delta * big / 3:
        pattern, method = base, RoundingMethod.UPPER
    else:
        inner = round_via_induced(base)
        assert inner.certified_bound <= certified
        pattern, method = inner.pattern, inner.method
    if not used_high:
        pattern = _reflect_pattern(rr, pattern)
    return BoundedRounding(_unrotate_pattern(r, pattern, shift), certified, method)


def fraction_ascend(task) -> tuple[Fraction, int, tuple[int, ...]]:
    """One restart of the heuristic search as a rational ascent: every
    candidate grid point becomes a ``CrossingRouting`` of ``Fraction``s
    and is valued by the full oracle over its largest demand.  Same task
    tuple and result as ``ringload.adversary._ascend``."""
    m, den, seed, index, fixed_start = task

    def grid_value(grid):
        routing = CrossingRouting(
            tuple(Fraction(g, den) for g in grid[:m]), tuple(Fraction(g, den) for g in grid[m:])
        )
        return min_additive_performance(routing).value / routing.max_demand

    if fixed_start is not None:
        grid = list(fixed_start)
    else:
        rng = Random(f"{seed}:{index}")
        grid = []
        for _ in range(m):
            grid.append(rng.randint(1, den - 1))
        for i in range(m):
            grid.append(rng.randint(1, den - grid[i]))
    value = grid_value(grid)
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
                    grid[partner] = den - grid[c]
                cand_value = grid_value(grid)
                if cand_value > value:
                    value = cand_value
                    improved = True
                    break
                grid[c], grid[partner] = old_c, old_p
            if improved:
                break
    return value, index, tuple(grid)


def resimulate_forward(r: CrossingRouting, x: Fraction) -> int:
    """Re-derive the forward greedy mask with an independent literal
    transcription of the step rule (stay inside, get close to D/2,
    prefer up on ties)."""
    big = r.max_demand
    half = big / 2
    cur = x
    mask = 0
    for i in range(r.m):
        up = cur + r.v[i]
        down = cur - r.u[i]
        candidates = []
        if up <= big:
            candidates.append((abs(half - up), 0, up, 1 << i))
        if down >= 0:
            candidates.append((abs(half - down), 1, down, 0))
        dist, _, cur, bit = min(candidates)
        mask |= bit
    return mask


def resimulate_backward(r: CrossingRouting, y: Fraction) -> int:
    big = r.max_demand
    half = big / 2
    cur = y
    mask = 0
    for i in reversed(range(r.m)):
        was_up = cur - r.v[i]
        was_down = cur + r.u[i]
        candidates = []
        if was_up >= 0:
            candidates.append((abs(half - was_up), 0, was_up, 1 << i))
        if was_down <= big:
            candidates.append((abs(half - was_down), 1, was_down, 0))
        dist, _, cur, bit = min(candidates)
        mask |= bit
    return mask


def pattern_delta(p: Pattern) -> tuple[Fraction, ...]:
    """Signed per-edge load change of switching the split routing to the
    unsplittable routing encoded by ``p.choices``: edge k (k in 1..m)
    changes by (sum of steps up to k) - (sum of steps after k), edge k+m
    by the negation."""
    prefixes = p.prefix_values
    x, y = prefixes[0], prefixes[-1]
    first = [2 * prefixes[k] - x - y for k in range(1, len(prefixes))]
    return tuple(first + [-t for t in first])


def check_trace_replay(result) -> int:
    """Assert, for EVERY rerouting mask of a non-trivial reduction, that
    lifting it back changes each original edge's load by exactly the
    pattern's delta on that edge's image.  Returns the mask count."""
    trace = result.trace
    r = result.routing
    base_loads = trace.base.loads().loads
    n = trace.base.instance.n
    for choices in range(1 << r.m):
        lifted = trace.lift(choices).loads().loads
        delta = pattern_delta(Pattern(r, choices, Fraction(0)))
        for k in range(1, n + 1):
            assert lifted[k - 1] - base_loads[k - 1] == delta[trace.edge_images[k - 1] - 1]
    return 1 << r.m


def random_crossing(rng: Random, max_m: int = 16, max_den: int = 12) -> CrossingRouting:
    m = rng.randint(1, max_m)
    u = []
    v = []
    for _ in range(m):
        u.append(Fraction(rng.randint(1, 3 * max_den), rng.randint(1, max_den)))
        v.append(Fraction(rng.randint(1, 3 * max_den), rng.randint(1, max_den)))
    return CrossingRouting(tuple(u), tuple(v))


def tie_heavy(m: int, seed: int) -> CrossingRouting:
    """Parts in 1..3: many masks share an optimum, so witness rules show."""
    rng = Random(seed)
    return CrossingRouting(
        tuple(rng.randint(1, 3) for _ in range(m)), tuple(rng.randint(1, 3) for _ in range(m))
    )


def lopsided(m: int, seed: int) -> CrossingRouting:
    """One heavy side per demand: split-load gaps well above D, so boost
    fillers get capped again and again."""
    rng = Random(seed)
    return CrossingRouting(
        tuple(rng.randint(5, 15) for _ in range(m)), tuple(rng.randint(1, 2) for _ in range(m))
    )


def random_pattern(rng: Random, r: CrossingRouting) -> Pattern:
    choices = rng.randrange(1 << r.m)
    start = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
    return Pattern(r, choices, start)


def random_general(rng: Random, max_split: int = 10, max_unsplit: int = 10) -> GeneralSplitRouting:
    """A ring instance with a mix of genuinely split and one-sided
    demands (distinct node pairs, exact rational parts)."""
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
    instance = RingInstance(n, tuple(demands))
    return GeneralSplitRouting(instance, tuple(parts))
