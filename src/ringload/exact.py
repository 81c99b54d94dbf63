"""Exact oracles (exponential in the worst case, desk-scale instances only).

All enumeration and search runs on integers after clearing denominators,
so results are exact rationals.  Witnesses are reported for the lowest
qualifying choice mask, which makes every oracle deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .core import CrossingRouting, Pattern, RingInstance, split_loads
from .core import integer_arc_loads
from .errors import GuaranteeViolated, TooLarge
from .reduce import GeneralSplitRouting

DEFAULT_CAP = 24


class PerformanceOptimum(NamedTuple):
    value: Fraction
    pattern: Pattern


def _lowest_performance(
    steps_down: Sequence[int], steps_up: Sequence[int], limit: int | None = None, first=False
) -> tuple[int, int] | None:
    """``(performance, mask)``: the smallest performance below ``limit``
    (default: above every bound) of the integer walk that steps down by
    ``steps_down[k]`` where bit k is clear and up by ``steps_up[k]`` where
    it is set, at its lowest mask; None if no mask performs below
    ``limit``.  With ``first``, the search stops at the lowest mask that
    performs below ``limit``.

    Depth-first branch-and-bound over the walk read backward from its
    end, which sits at 0: bit m-1 is fixed first and "down" is tried
    before "up", so leaves arrive in ascending mask order and the first
    optimum reached is the lowest mask.  A prefix is pruned once a lower
    bound on every completion reaches the incumbent, which starts at
    ``limit``.
    """
    m = len(steps_down)
    # with bits 0..k-1 open at position p, the start lies in
    # [p - up_sum[k], p + down_sum[k]]
    down_sum = tuple(accumulate(steps_down, initial=0))
    up_sum = tuple(accumulate(steps_up, initial=0))
    best = 2 * (down_sum[m] + up_sum[m]) + 1 if limit is None else limit
    found = None

    def descend(k: int, p: int, lo: int, hi: int, mask: int) -> None:
        # performance is max(2b - x, x - 2a) for strip [a, b] and start x;
        # at a leaf (k = 0) the bound below is exactly that
        nonlocal best, found
        k -= 1
        down_open, up_open = down_sum[k], up_sum[k]
        for q, choice in ((p + steps_down[k], mask), (p - steps_up[k], mask | 1 << k)):
            q_lo = q if q < lo else lo
            q_hi = q if q > hi else hi
            bound = q_hi - q_lo
            t = 2 * q_hi - q - down_open
            if t > bound:
                bound = t
            t = q - up_open - 2 * q_lo
            if t > bound:
                bound = t
            if bound < best:
                if k:
                    descend(k, q, q_lo, q_hi, choice)
                else:
                    found = bound, choice
                    # no bound is negative, so an incumbent of 0 prunes
                    # every branch left open
                    best = 0 if first else bound

    descend(m, 0, 0, 0, 0)
    return found


def min_additive_performance(r: CrossingRouting) -> PerformanceOptimum:
    """Smallest additive performance over all 2^m complete reroutings of
    a crossing routing, with the lowest optimal mask as witness pattern
    anchored at 0, found by branch-and-bound on the integer walk of
    ``r.scaled``."""
    m = r.m
    if m > DEFAULT_CAP:
        raise TooLarge(f"2^{m} reroutings exceeds the enumeration cap 2^{DEFAULT_CAP}")
    denom, steps_down, steps_up = r.scaled
    best, best_mask = _lowest_performance(steps_down, steps_up)
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


def _enumerate_unsplittable(base: GeneralSplitRouting, free: list[int]) -> UnsplittableOptimum:
    """Minimize the maximum edge load over all one-sided routings of the
    ``free`` demands, keeping the rest as routed in ``base``.

    Depth-first branch-and-bound on ``base.scaled``; the witness is built
    from the same integers.  The fixed demands load the ring first; then free
    position k-1 is placed first, counter-clockwise (bit clear) before
    clockwise, so leaves arrive in ascending mask order and the first
    optimum reached is the lowest mask.  Placing a demand only adds load,
    so a child whose partial peak reaches the incumbent is pruned.
    """
    k = len(free)
    if k > DEFAULT_CAP:
        raise TooLarge(f"2^{k} routings exceeds the enumeration cap 2^{DEFAULT_CAP}")
    instance = base.instance
    demands = instance.demands
    denom, values, parts = base.scaled
    free_set = set(free)
    loads = integer_arc_loads(instance.n, (
        (i, j, parts[t], values[t] - parts[t])
        for t, (i, j, _) in enumerate(demands) if t not in free_set
    ))
    best = max(loads)
    best_mask = 0
    if k:
        # the endpoints of the free demands cut the ring into runs of
        # edges that every routing loads alike, so a run counts only by
        # its peak fixed load; run r starts at 0-based edge cuts[r] and
        # the last run wraps past edge n
        cuts = sorted({node - 1 for t in free for node in demands[t][:2]})
        run_of = {edge: r for r, edge in enumerate(cuts)}
        peaks = [max(loads[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        peaks.append(max(loads[cuts[-1]:] + loads[:cuts[0]]))
        run_count = len(cuts)
        # per free position: scaled value, then the runs of its
        # counter-clockwise arc (wrapping past the last run) and of its
        # clockwise arc
        placements = []
        for t in free:
            i, j, _ = demands[t]
            lo, hi = run_of[i - 1], run_of[j - 1]
            ccw = (*range(hi, run_count), *range(lo))
            placements.append((values[t], ccw, tuple(range(lo, hi))))

        def descend(pos: int, peak: int, mask: int) -> None:
            nonlocal best, best_mask
            pos -= 1
            value, ccw, cw = placements[pos]
            for runs, choice in ((ccw, mask), (cw, mask | 1 << pos)):
                top = value + max([peaks[r] for r in runs])
                if top < peak:
                    top = peak
                if top >= best:
                    continue
                if not pos:
                    best, best_mask = top, choice
                    continue
                for r in runs:
                    peaks[r] += value
                descend(pos, top, choice)
                for r in runs:
                    peaks[r] -= value

        best += sum(value for value, _, _ in placements) + 1  # above every bound
        descend(k, max(peaks), 0)
    cw_out = list(parts)
    for pos, t in enumerate(free):
        cw_out[t] = values[t] if best_mask >> pos & 1 else 0
    witness = GeneralSplitRouting.from_scaled(instance, denom, values, cw_out)
    # the witness may hold coarser units than the base: cross-multiply
    peak = max(witness.integer_loads())
    result = Fraction(best, denom)
    if peak * denom != best * witness.scaled[0]:
        raise GuaranteeViolated(
            f"witness routing loads {Fraction(peak, witness.scaled[0])}, not the optimum {result}"
        )
    return UnsplittableOptimum(result, witness)


def optimal_unsplittable(instance: RingInstance) -> UnsplittableOptimum:
    """Exact unsplittable optimum of a general ring instance, searched
    over the directions of the demands with positive value (zero-value
    demands are reported counter-clockwise in the witness)."""
    free = [t for t, (_, _, d) in enumerate(instance.demands) if d > 0]
    base = GeneralSplitRouting(instance, (Fraction(0),) * len(instance.demands))
    return _enumerate_unsplittable(base, free)


def optimal_unsplittable_boosted(boosted) -> UnsplittableOptimum:
    """Unsplittable optimum of a boosted instance with every short demand
    pinned to its home path; only the 2^m crossing reroutings are
    searched."""
    free = [t for t, component in enumerate(boosted.components) if component.kind == "crossing"]
    return _enumerate_unsplittable(boosted.canonical_routing, free)


def split_optimum_crossing(r: CrossingRouting) -> Fraction:
    """Split optimum of the demand values of a crossing routing: half the
    total demand, realized by the even split (all loads equal, checked)."""
    half = sum(r.demand_values, Fraction(0)) / 2
    even = CrossingRouting(
        tuple(d / 2 for d in r.demand_values), tuple(d / 2 for d in r.demand_values)
    )
    if any(x != half for x in split_loads(even)):
        raise GuaranteeViolated(f"even split is not balanced at {half}")
    return half


def split_optimum_boosted(boosted) -> Fraction:
    """Split optimum of a boosted instance, recomputed from its canonical
    configuration: source splits on the crossing demands, home paths for
    the shorts.  All edge loads must agree, otherwise the instance is not
    properly equalized; they are compared on the integers."""
    canonical = boosted.canonical_routing
    loads = canonical.integer_loads()
    first = loads[0]
    if any(x != first for x in loads):
        raise GuaranteeViolated(
            f"canonical configuration loads {tuple(canonical.loads())} are not all equal"
        )
    return Fraction(first, canonical.scaled[0])
