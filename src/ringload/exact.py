"""Exact oracles (exponential in the worst case, desk-scale instances only).

All enumeration and search runs on integers after clearing denominators,
so results are exact rationals.  Witnesses are reported for the lowest
qualifying choice mask, which makes every oracle deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .core import CrossingRouting, Pattern, RingInstance, split_loads
from .core import ccw_edges, cw_edges, scaled_arc_loads
from .errors import GuaranteeViolated, NotEqualized, TooLarge
from .reduce import GeneralSplitRouting

DEFAULT_CAP = 24


class PerformanceOptimum(NamedTuple):
    value: Fraction
    pattern: Pattern


def min_additive_performance(r: CrossingRouting, cap: int = DEFAULT_CAP) -> PerformanceOptimum:
    """Smallest additive performance over all 2^m complete reroutings of
    a crossing routing, with a witness pattern anchored at 0.

    Depth-first branch-and-bound over the integer walk read backward from
    its end, which sits at 0: bit m-1 is fixed first and "down" (bit
    clear) is tried before "up", so leaves arrive in ascending mask order
    and the first optimum reached is the lowest mask.  A prefix is pruned
    once a lower bound on every completion reaches the incumbent.
    """
    m = r.m
    if m > cap:
        raise TooLarge(f"2^{m} reroutings exceeds the enumeration cap 2^{cap}")
    denom, steps_down, steps_up = r.scaled
    # with bits 0..k-1 open at position p, the start lies in
    # [p - up_sum[k], p + down_sum[k]]
    down_sum = tuple(accumulate(steps_down, initial=0))
    up_sum = tuple(accumulate(steps_up, initial=0))
    best = 2 * (down_sum[m] + up_sum[m]) + 1  # above every bound
    best_mask = 0

    def descend(k: int, p: int, lo: int, hi: int, mask: int) -> None:
        # performance is max(2b - x, x - 2a) for strip [a, b] and start x;
        # at a leaf (k = 0) the bound below is exactly that
        nonlocal best, best_mask
        k -= 1
        for q, choice in ((p + steps_down[k], mask), (p - steps_up[k], mask | 1 << k)):
            q_lo = q if q < lo else lo
            q_hi = q if q > hi else hi
            bound = max(q_hi - q_lo, 2 * q_hi - q - down_sum[k], q - up_sum[k] - 2 * q_lo)
            if bound < best:
                if k:
                    descend(k, q, q_lo, q_hi, choice)
                else:
                    best, best_mask = bound, choice

    descend(m, 0, 0, 0, 0)
    value = Fraction(best, denom)
    witness = Pattern(r, best_mask, Fraction(0))
    if witness.performance != value:
        raise GuaranteeViolated(
            f"witness mask {best_mask:#x} performs {witness.performance}, not the optimum {value}"
        )
    return PerformanceOptimum(value, witness)


class UnsplittableOptimum(NamedTuple):
    value: Fraction
    routing: GeneralSplitRouting


def _enumerate_unsplittable(
    instance: RingInstance,
    base_cw: list[Fraction],
    free: list[int],
    cap: int,
) -> UnsplittableOptimum:
    """Minimize the maximum edge load over all one-sided routings of the
    ``free`` demands, keeping the rest as given in ``base_cw``.

    Walks masks in Gray-code order with incremental load updates; since
    that visit order is not monotone in the mask, the minimum keeps an
    explicit (value, mask) pair so the lowest qualifying mask wins.
    """
    k = len(free)
    if k > cap:
        raise TooLarge(f"2^{k} routings exceeds the enumeration cap 2^{cap}")
    n = instance.n
    demands = instance.demands
    # mask-0 state: the free demands all counter-clockwise, the rest as given
    free_set = set(free)
    denom, loads = scaled_arc_loads(n, (
        (i, j, Fraction(0), value) if t in free_set else (i, j, base_cw[t], value - base_cw[t])
        for t, (i, j, value) in enumerate(demands)
    ))
    scaled_val = [int(demands[t][2] * denom) for t in free]
    # 0-based edge indices of each free demand's two arcs
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
        value = instance.demands[t][2]
        cw_out[t] = value if best_mask >> pos & 1 else Fraction(0)
    witness = GeneralSplitRouting(instance, tuple(cw_out))
    result = Fraction(best_val, denom)
    if witness.loads().max_load != result:
        raise GuaranteeViolated(
            f"witness routing loads {witness.loads().max_load}, not the optimum {result}"
        )
    return UnsplittableOptimum(result, witness)


def optimal_unsplittable(instance: RingInstance, demand_cap: int = DEFAULT_CAP) -> UnsplittableOptimum:
    """Exact unsplittable optimum of a general ring instance by complete
    enumeration over the demands with positive value (zero-value demands
    are reported counter-clockwise in the witness)."""
    free = [t for t, (_, _, d) in enumerate(instance.demands) if d > 0]
    base = [Fraction(0)] * len(instance.demands)
    return _enumerate_unsplittable(instance, base, free, demand_cap)


def optimal_unsplittable_boosted(boosted, cap: int = DEFAULT_CAP) -> UnsplittableOptimum:
    """Unsplittable optimum of a boosted instance with every short demand
    pinned to its home path; only the 2^m crossing reroutings are
    enumerated."""
    canonical = boosted.canonical_routing()
    free = [t for t, component in enumerate(boosted.components) if component.kind == "crossing"]
    return _enumerate_unsplittable(canonical.instance, list(canonical.clockwise), free, cap)


def split_optimum_crossing(r: CrossingRouting) -> Fraction:
    """Split optimum of the demand values of a crossing routing: half the
    total demand, realized by the even split (all loads equal, asserted)."""
    total = sum(r.demand_values, Fraction(0))
    even = CrossingRouting(
        tuple(d / 2 for d in r.demand_values), tuple(d / 2 for d in r.demand_values)
    )
    profile = split_loads(even)
    assert all(x == total / 2 for x in profile), "even split is not balanced"
    return total / 2


def split_optimum_boosted(boosted) -> Fraction:
    """Split optimum of a boosted instance, recomputed from its canonical
    configuration: source splits on the crossing demands, home paths for
    the shorts.  All edge loads must agree, otherwise the instance is not
    properly equalized."""
    profile = boosted.canonical_routing().loads()
    first = profile.loads[0]
    if any(x != first for x in profile):
        raise NotEqualized(
            f"canonical configuration loads {tuple(profile)} are not all equal"
        )
    return first
